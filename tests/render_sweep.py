"""Compare the CSV float renderer with ``format`` over random bit patterns.

    PYTHONPATH=src python tests/render_sweep.py [--count N] [--seed S]

Draws N seeded random float64 bit patterns (NaN, infinities, zeros and
subnormals among them), renders them as 4-column CSV rows in blocks, and
compares every byte with per-element ``format(x, '.16e')``.  Prints the share
of values the renderer handed to ``format`` and exits 1 on a mismatch.  The
file name keeps pytest from collecting it: the test suite checks 200,000
patterns, and CI runs this script over 5,000,000.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from leveldecay import artifacts

_BLOCK = 250_000  # values per comparison, which bounds memory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=5_000_000)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args(argv)

    fallbacks = 0
    render_fmt = artifacts.fmt

    def counting_fmt(x: float) -> str:
        nonlocal fallbacks
        fallbacks += 1
        return render_fmt(x)

    rng = np.random.default_rng(args.seed)
    checked = 0
    start = time.perf_counter()
    artifacts.fmt = counting_fmt
    try:
        for done in range(0, args.count, _BLOCK):
            n = min(_BLOCK, args.count - done) // 4 * 4
            bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
            rows = bits.view(np.float64).reshape(-1, 4)
            got = artifacts._render_columns("h", list(rows.T))
            want = "h\n" + "".join(",".join(map(render_fmt, row)) + "\n" for row in rows.tolist())
            if got != want:
                pairs = zip(got.splitlines(), want.splitlines())
                first = next((pair for pair in pairs if pair[0] != pair[1]), None)
                print(f"mismatch in the block of values from {done}: {first!r}")
                return 1
            checked += n
    finally:
        artifacts.fmt = render_fmt
    print(f"{checked:,} values equal format's text; {fallbacks:,} "
          f"({fallbacks / max(checked, 1):.2%}) went to format; "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
