"""Deterministic CSV/JSON artifact writers shared by the CLI and verification.

Floats are rendered with 17 significant digits in lowercase scientific
notation, byte for byte as ``format(x, '.16e')``, so that repeated runs
produce byte-identical files.  CSV files are comma-separated with a header
row and UNIX newlines.  JSON summaries are flat objects; divergent (infinite)
quantities are encoded as null, since JSON has no literal for them.  The
sweep CSV renders each line from a sweep value and its ``spectrum.point_mass``
result directly, one ``fmt`` call per float cell.

The float columns of the series and density CSVs are rendered in one numpy
pass instead of one ``format`` call per float.  For x with |x| in
[1e-250, 1e250] the pass finds the decimal exponent E and forms
a = |x| 10^(16 - E) in [1e16, 1e17) as hi + lo: Dekker's error-free product
(Numer. Math. 18, 224, 1971) of |x| with 10^(16 - E) held as a double-double.
hi is an even integer, so rounding lo half-even rounds a half-even, and a
carry to 1e17 moves E up by one.  The 17 digits are gathered four at a time
from a digit table into a fixed-width byte buffer, whose filler bytes are
then dropped.  For 16 - E in 0..22 the power is exact and so is hi + lo.
Otherwise hi + lo is within 4e-15 of a: the double-double power, the
rounded product of |x| with its low part and the sum into lo each add one
rounding of at most 2e-15.  There a value whose lo lies within 1e-9 of a
rounding tie, or whose a lies within 1e-9 of 1e16 or 1e17, is rendered by
``format``, as are zeros, NaN, infinities and |x| outside [1e-250, 1e250].
Every byte is then the one ``format`` gives (Loitsch, PLDI 2010, pairs a
fast path with a detected fallback the same way).
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .evolution import AmplitudeSeries
from .spectrum import SpectralData


# 17 significant digits, lowercase scientific.
_FLOAT_FORMAT = ".16e"


def fmt(x: float) -> str:
    """17-significant-digit lowercase scientific rendering of a float."""
    return format(x, _FLOAT_FORMAT)


# |x| outside [_FAST_MIN, _FAST_MAX] goes to ``format``: inside, every power of
# ten the pass uses and every partial product of the two-product is a normal
# double.
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
# Powers 10^k tabled, k = 16 - E; E of |x| in the fast range is -251..250,
# and the first guess from log10 can be one off.
_K_MIN, _K_MAX = -240, 270
# Distance from a rounding tie or a decade edge below which an inexact
# scaling goes to ``format``: far above its 4e-15 error, and it catches about
# 2 values in 1e9.
_MARGIN = 1e-9
# Floats rendered per block.  It bounds the pass's buffers; of 2048 to
# 16384, 4096 rendered a 2000 x 4 series fastest.
_BLOCK_FLOATS = 4096


def _words(*columns) -> np.ndarray:
    """Four byte columns (arrays or scalars) packed into one uint32 per row.

    A zero byte is filler, dropped from the rendered text.
    """
    columns = [np.asarray(c).astype(np.uint8) for c in columns]
    return np.stack(np.broadcast_arrays(*columns), axis=-1).view(np.uint32)[..., 0]


# A rendered float is seven words, 28 bytes: the head (sign or filler, lead
# digit, '.', filler), four words of four digits, then 'e', the exponent's
# sign and its hundreds (or filler) and tens digits, then its units digit, a
# comma (a newline in the last column) and filler.  ``format``'s text, at
# most 24 bytes, fits before the separator.
_ZERO = ord("0")
_N4 = np.arange(10_000, dtype=np.int16)
_DIGITS4 = _words(*(_N4 // 10**j % 10 + _ZERO for j in (3, 2, 1, 0)))
_HEAD = _words(  # by lead digit + 10 * negative
    np.repeat([0, ord("-")], 10), np.tile(np.arange(10) + _ZERO, 2), ord("."), 0
)
_E_LIM = 260  # E of the fast range and its placeholders lie in -_E_LIM.._E_LIM
_E = np.arange(-_E_LIM, _E_LIM + 1, dtype=np.int16)
_EXP_HEAD = _words(
    ord("e"), np.where(_E < 0, ord("-"), ord("+")),
    np.where(abs(_E) >= 100, abs(_E) // 100 + _ZERO, 0), abs(_E) // 10 % 10 + _ZERO,
)
_EXP_TAIL = _words(abs(_E) % 10 + _ZERO, ord(","), 0, 0)
_COMMA_TO_NEWLINE = _words(0, ord(",") ^ ord("\n"), 0, 0)
_SEP_AT = 25  # byte offset of the separator


@functools.cache
def _pow10() -> tuple[np.ndarray, ...]:
    """10^k for k = _K_MIN.._K_MAX as a double-double: (hi, hi's split, lo).

    hi is the nearest double to 10^k and lo the nearest double to 10^k - hi;
    lo = 0 exactly where 10^k is a double (k = 0..22).  Integer arithmetic is
    exact, and int-to-float and int / int round correctly.
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            p = 10**k
            h = float(p)
            lo.append(float(p - int(h)))
        else:
            d = 10**-k
            h = 1 / d
            num, den = h.as_integer_ratio()
            lo.append((den - num * d) / (den * d))
        hi.append(h)
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = high + low, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _scale(ax: np.ndarray, e: np.ndarray):
    """(hi, lo, inexact): ax 10^(16 - e) as hi + lo, and where 10^(16 - e) is not a double."""
    k = 16 - _K_MIN - e
    ph, bh, bl, pl = (np.take(table, k) for table in _pow10())  # ph = bh + bl
    hi = ax * ph
    # Dekker's two-product: hi + err = ax * ph exactly.
    ah, al = _split(ax)
    err = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi, err + ax * pl, pl != 0.0


def _render_block(x: np.ndarray) -> str:
    """Rows of floats as CSV lines, each float as ``format(v, '.16e')``."""
    v = x.ravel()
    ax = np.abs(v)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo, inexact = _scale(ax, e)
    # log10 can miss E by one next to a power of ten: settle E on the
    # unrounded a = hi + lo.  (hi - 1e16) + lo has the sign of a - 1e16.
    d16, d17 = (hi - 1e16) + lo, (hi - 1e17) + lo
    shift = (d17 >= 0.0).astype(np.int64) - (d16 < 0.0)
    if shift.any():
        e += shift
        hi, lo, inexact = _scale(ax, e)
        d16, d17 = (hi - 1e16) + lo, (hi - 1e17) + lo
    # Where the power is inexact, hi + lo is within 4e-15 of a: a value near
    # a rounding tie or a decade edge goes to ``format``.  Such an a on an
    # edge can also leave [1e16, 1e17) again after the shift.
    slow = ~fast | (d16 < 0.0) | (d17 >= 0.0)
    at = np.flatnonzero(inexact)
    slow[at] |= (
        (np.abs(lo[at] - np.floor(lo[at]) - 0.5) < _MARGIN)
        | (np.abs(d16[at]) < _MARGIN)
        | (np.abs(d17[at]) < _MARGIN)
    )
    # hi is an even integer (a >= 1e16 > 2**53), so rint's half-even on lo
    # is half-even on a.
    m = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = m == 10**17
    m[carry] = 10**16
    e += carry

    words = np.empty((v.size, 7), dtype=np.uint32)
    lead = m // 10**16
    words[:, 0] = np.take(_HEAD, lead + 10 * (v < 0.0))
    rest = m - lead * 10**16
    for col, unit in enumerate((10**12, 10**8, 10**4), start=1):
        group = rest // unit
        rest -= group * unit
        words[:, col] = np.take(_DIGITS4, group)
    words[:, 4] = np.take(_DIGITS4, rest)
    e += _E_LIM
    words[:, 5] = np.take(_EXP_HEAD, e)
    words[:, 6] = np.take(_EXP_TAIL, e)
    words.reshape(*x.shape, 7)[:, -1, 6] ^= _COMMA_TO_NEWLINE
    text = words.view(np.uint8)
    for i in np.flatnonzero(slow):
        slow_text = fmt(float(v[i])).encode("ascii")
        text[i, :_SEP_AT] = 0
        text[i, :len(slow_text)] = np.frombuffer(slow_text, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _render_columns(header: str, columns) -> str:
    """CSV of float columns: the header, then one line per row."""
    x = np.column_stack(columns)
    rows = _BLOCK_FLOATS // x.shape[1]
    blocks = (_render_block(x[i:i + rows]) for i in range(0, len(x), rows))
    return header + "\n" + "".join(blocks)


def _json_value(x):
    if x is None:
        return None
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def render_json(obj: dict) -> str:
    payload = {k: _json_value(v) for k, v in obj.items()}
    return json.dumps(payload, indent=2) + "\n"


def write_json(path: Path, obj: dict) -> None:
    path.write_text(render_json(obj), encoding="utf-8")


def render_density_csv(spec: SpectralData) -> str:
    """The table at lambda = e1 + L xi, rho = rho~ / L; a rho past the float
    range (at a subnormal L) is written ``inf``, as the sweep CSV writes the 2d rhs."""
    with np.errstate(over="ignore"):
        rho = spec.params.down(spec.density)
    return _render_columns("lambda,rho", (spec.params.energy(spec.grid), rho))


def write_density_csv(path: Path, spec: SpectralData) -> None:
    path.write_text(render_density_csv(spec), encoding="utf-8", newline="\n")


def render_spectral_json(spec: SpectralData) -> str:
    return render_json({
        "e0": spec.eigenvalue,
        "weight": spec.weight,
        "threshold_lhs": spec.params.level_gap,
        "threshold_rhs": spec.threshold_rhs,
        "normalization_defect": spec.normalization_defect,
        "degenerate": spec.degenerate,
    })


def write_spectral_json(path: Path, spec: SpectralData) -> None:
    path.write_text(render_spectral_json(spec), encoding="utf-8")


def render_series_csv(series: AmplitudeSeries) -> str:
    return _render_columns("t,re_c,im_c,p", (
        series.times, series.amplitude.real, series.amplitude.imag, series.probability
    ))


def write_series_csv(path: Path, series: AmplitudeSeries) -> None:
    path.write_text(render_series_csv(series), encoding="utf-8", newline="\n")


def write_decay_json(
    path: Path, p_infinity: float, gamma_estimate: float, max_deviation: float
) -> None:
    write_json(path, {
        "p_infinity": p_infinity,
        "gamma_estimate": gamma_estimate,
        "max_deviation_vs_volterra": max_deviation,
    })


def render_sweep_csv(values: Iterable[float], points: Iterable[tuple]) -> str:
    """The threshold table of one sweep: a line per value and its
    ``point_mass`` result (threshold test, e0, w).

    A marginal point is ``skipped``, with e0, weight and p_infinity empty;
    at zero coupling e0 is empty and weight and p_infinity are 1.  The 2d
    threshold_rhs is ``inf``.
    """
    lines = ["sweep_value,threshold_rhs,exists,e0,weight,p_infinity"]
    for value, (check, e0, weight) in zip(values, points, strict=True):
        lines.append(",".join([
            fmt(value),
            "inf" if math.isinf(check.rhs) else fmt(check.rhs),
            "skipped" if check.marginal else str(check.exists).lower(),
            "" if e0 is None or check.degenerate else fmt(e0),
            "" if weight is None else fmt(weight),
            "" if weight is None else fmt(weight**2),
        ]))
    return "\n".join(lines) + "\n"


def write_sweep_csv(path: Path, values: Iterable[float], points: Iterable[tuple]) -> None:
    path.write_text(render_sweep_csv(values, points), encoding="utf-8", newline="\n")
