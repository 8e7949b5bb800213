"""Smoke run of the benchmark at tiny size (about a minute on 2 cores).

    python3 perfbench/smoke.py

For every workload it runs run.py once untraced and twice traced with one
seed, and fails unless each run passes all its checks, prints exactly the
metrics BENCHMARK.json names (end-to-end untraced, per-layer traced) with
their units, and the three runs agree on the artifact digests and the two
traced runs on every deterministic counter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tracing import DETERMINISTIC

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    digest = next(line.split()[2] for line in lines if line.startswith("digest run "))
    return json.loads(lines[-1]), digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = [(trace, *run(workload, trace)) for trace in (0, 1, 1)]
        for trace, result, _digest in results:
            tag = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']}, "
                                f"failed {result['failed']} of {result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[trace]))}")
        if len({digest for _t, _r, digest in results}) != 1:
            problems.append(f"{workload}: artifact digests differ between runs")
        counters = [
            {k: v["value"] for k, v in r["metrics"].items()
             if k in DETERMINISTIC or k.endswith(".calls")}
            for t, r, _d in results if t == 1
        ]
        if counters[0] != counters[1]:
            problems.append(f"{workload}: deterministic counters differ between traced runs")
        print(f"{workload}: {len(results)} runs checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
