"""Hold long Volterra solves to the direct O(N^2) step-by-step sums, and
longer ones at two radices to each other.

    PYTHONPATH=src python tests/long_solves.py

Solves 2d g2 0.5 and 3d g2 2 (L 1, gap 1, h 0.01) for each step count with
``solve_ide`` and with ``_direct_heun`` from ``test_time_domain.py``, prints
the largest difference of each and exits 1 if one is above 1e-12.  The
step counts reach past the third level of the partitioned history
(blocks of 65,536 samples): 65,537 starts its first sub-block there after
the first, and 140,289 = 2 * 65,536 + 8,192 + 1,024 + 1 sums two earlier
sub-blocks into the third and ends in a partial chunk.  Past the reach of
the direct sums, 1,048,577 = 2 * 8^3 * 1024 + 1 steps are solved at the
module's radix of 8, which reaches the fourth level (blocks of 524,288
samples), and again at a radix of 2, whose schedule has twice as many
levels; the two solves must agree to 1e-12.  The file name keeps pytest
from collecting it: the test suite stops at 17,409 steps, and the direct
sums grow with the square of the step count.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from leveldecay import CouplingFamily, solve_ide, volterra
from test_time_domain import _direct_heun, _params

_MODELS = ((CouplingFamily.TWO_DIM_EXP, 0.5), (CouplingFamily.THREE_DIM_EXP, 2.0))
_STEPS = (65_537, 140_289)
_RADIX_STEPS = 2 * 8**3 * 1024 + 1
_BOUND = 1e-12


def _report(label: str, got: np.ndarray, ref: np.ndarray, start: float) -> bool:
    """Print the largest |got - ref| and return whether it is within the bound."""
    dev = float(np.max(np.abs(got - ref)))
    print(f"{label}: max |difference| {dev:.3g} (bound {_BOUND:g}), "
          f"{time.perf_counter() - start:.1f} s")
    return got.shape == ref.shape and dev <= _BOUND


def main() -> int:
    h = 0.01
    ok = True
    for n_steps in _STEPS:
        for family, g_sq in _MODELS:
            params = _params(family, g_sq)
            start = time.perf_counter()
            got = solve_ide(params, horizon=n_steps * h, step=h).amplitude
            ref = _direct_heun(params, n_steps * h, h)
            ok &= _report(f"{n_steps:,} steps, {family.value} g2 {g_sq}", got, ref, start)
    radix = volterra._RADIX
    for family, g_sq in _MODELS:
        params = _params(family, g_sq)
        start = time.perf_counter()
        got = solve_ide(params, horizon=_RADIX_STEPS * h, step=h).amplitude
        volterra._RADIX = 2
        try:
            ref = solve_ide(params, horizon=_RADIX_STEPS * h, step=h).amplitude
        finally:
            volterra._RADIX = radix
        ok &= _report(f"{_RADIX_STEPS:,} steps, {family.value} g2 {g_sq}, radix {radix} "
                      "against 2", got, ref, start)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
