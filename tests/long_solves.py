"""Hold long Volterra solves to the direct O(N^2) step-by-step sums.

    PYTHONPATH=src python tests/long_solves.py

Solves 2d g2 0.5 and 3d g2 2 (L 1, gap 1, h 0.01) for each step count with
``solve_ide`` and with ``_direct_heun`` from ``test_time_domain.py``, prints
the largest difference of each and exits 1 if one is above 1e-12.  The
step counts reach past the third level of the partitioned history
(blocks of 65,536 samples): 65,537 starts its first target block there, and
140,289 = 2 * 65,536 + 8,192 + 1,024 + 1 sums two source blocks into the
second and ends in a partial chunk.  The file name keeps pytest from
collecting it: the test suite stops at 17,409 steps, and the direct sums
grow with the square of the step count.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from leveldecay import CouplingFamily, solve_ide
from test_time_domain import _direct_heun, _params

_MODELS = ((CouplingFamily.TWO_DIM_EXP, 0.5), (CouplingFamily.THREE_DIM_EXP, 2.0))
_STEPS = (65_537, 140_289)
_BOUND = 1e-12


def main() -> int:
    h = 0.01
    failed = False
    for n_steps in _STEPS:
        for family, g_sq in _MODELS:
            params = _params(family, g_sq)
            start = time.perf_counter()
            got = solve_ide(params, horizon=n_steps * h, step=h).amplitude
            ref = _direct_heun(params, n_steps * h, h)
            dev = float(np.max(np.abs(got - ref)))
            failed |= got.shape != ref.shape or not dev <= _BOUND
            print(f"{n_steps:,} steps, {family.value} g2 {g_sq}: max |difference| "
                  f"{dev:.3g} (bound {_BOUND:g}), {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
